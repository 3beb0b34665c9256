//! FILTER expression micro-benchmarks: simple interned-id comparisons vs
//! full typed-value evaluation, regex compilation and matching (the
//! linear-time guarantee), and the ORDER BY operator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use hsp_engine::{ops, ExecContext};
use hsp_rdf::Term;
use hsp_sparql::{CmpOp, Expr, FilterExpr, Func, JoinQuery, Operand, Regex, SortKey, Var};
use hsp_store::{Dataset, Order};

/// A dataset of `n` subjects with a title and a year, plus the scanned
/// title table.
fn titles_dataset(n: usize) -> Dataset {
    let mut doc = String::with_capacity(n * 80);
    for i in 0..n {
        doc.push_str(&format!(
            "<http://e/j{i}> <http://e/title> \"Journal {} ({})\" .\n\
             <http://e/j{i}> <http://e/year> \"{}\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            i % 50,
            1900 + (i % 100),
            1900 + (i % 100),
        ));
    }
    Dataset::from_ntriples(&doc).expect("valid dataset")
}

fn scan_all(ds: &Dataset, predicate: &str) -> hsp_engine::BindingTable {
    let ctx = ExecContext::new();
    let q = JoinQuery::parse(&format!(
        "SELECT ?x ?v WHERE {{ ?x <http://e/{predicate}> ?v . }}"
    ))
    .expect("parses");
    ops::scan(&ctx, ds, &q.patterns[0], Order::Pso)
}

fn bench_filter_kinds(c: &mut Criterion) {
    let ctx = ExecContext::new();
    let mut group = c.benchmark_group("filter");
    for n in [1_000usize, 10_000, 100_000] {
        let ds = titles_dataset(n);
        let years = scan_all(&ds, "year");
        let titles = scan_all(&ds, "title");
        group.throughput(Throughput::Elements(n as u64));

        // Simple shape: interned-id equality (no term decoding).
        let simple = FilterExpr::Cmp {
            op: CmpOp::Eq,
            lhs: Operand::Var(Var(1)),
            rhs: Operand::Const(Term::typed_literal(
                "1940",
                "http://www.w3.org/2001/XMLSchema#integer",
            )),
        };
        group.bench_with_input(BenchmarkId::new("simple-eq", n), &n, |b, _| {
            b.iter(|| black_box(ops::filter(&ctx, &ds, &years, &simple)))
        });

        // Complex shape: typed numeric comparison with arithmetic.
        let complex = FilterExpr::Complex(Box::new(Expr::Cmp {
            op: CmpOp::Gt,
            lhs: Box::new(Expr::Arith {
                op: hsp_sparql::ArithOp::Sub,
                lhs: Box::new(Expr::Var(Var(1))),
                rhs: Box::new(Expr::Const(Term::typed_literal(
                    "1900",
                    "http://www.w3.org/2001/XMLSchema#integer",
                ))),
            }),
            rhs: Box::new(Expr::Const(Term::typed_literal(
                "50",
                "http://www.w3.org/2001/XMLSchema#integer",
            ))),
        }));
        group.bench_with_input(BenchmarkId::new("complex-arith", n), &n, |b, _| {
            b.iter(|| black_box(ops::filter(&ctx, &ds, &years, &complex)))
        });

        // REGEX over the title strings (compiled once per filter call via
        // the evaluator's cache).
        let regex = FilterExpr::Complex(Box::new(Expr::Call {
            func: Func::Regex,
            args: vec![
                Expr::Var(Var(1)),
                Expr::Const(Term::literal(r"\(19[4-6]\d\)")),
            ],
        }));
        group.bench_with_input(BenchmarkId::new("regex", n), &n, |b, _| {
            b.iter(|| black_box(ops::filter(&ctx, &ds, &titles, &regex)))
        });
    }
    group.finish();
}

fn bench_regex_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("regex");

    group.bench_function("compile-simple", |b| {
        b.iter(|| black_box(Regex::new(r"^Journal \d+ \(19\d\d\)$", "").unwrap()))
    });
    group.bench_function("compile-alternation", |b| {
        b.iter(|| black_box(Regex::new(r"(cat|dog|cow|hen)+[a-z0-9]{2,8}(x|y)?$", "i").unwrap()))
    });

    let re = Regex::new(r"\(19[4-6]\d\)", "").unwrap();
    let hit = "Journal 17 (1952) special issue";
    let miss = "Journal 17 (2052) special issue";
    group.bench_function("match-hit", |b| {
        b.iter(|| black_box(re.is_match(black_box(hit))))
    });
    group.bench_function("match-miss", |b| {
        b.iter(|| black_box(re.is_match(black_box(miss))))
    });

    // The linear-time guarantee: a classic catastrophic-backtracking
    // pattern stays flat as the input grows.
    let evil = Regex::new("^(a+)+b$", "").unwrap();
    for n in [64usize, 256, 1024] {
        let text = "a".repeat(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("pathological", n), &text, |b, t| {
            b.iter(|| black_box(evil.is_match(black_box(t))))
        });
    }
    group.finish();
}

fn bench_order_by(c: &mut Criterion) {
    let ctx = ExecContext::new();
    let mut group = c.benchmark_group("order_by");
    for n in [1_000usize, 10_000, 100_000] {
        let ds = titles_dataset(n);
        let years = scan_all(&ds, "year");
        group.throughput(Throughput::Elements(n as u64));
        let keys = vec![SortKey {
            expr: Expr::Var(Var(1)),
            descending: true,
        }];
        group.bench_with_input(BenchmarkId::new("numeric-desc", n), &n, |b, _| {
            b.iter(|| black_box(ops::order_by(&ctx, &ds, &years, &keys)))
        });
        group.bench_with_input(BenchmarkId::new("slice-1000", n), &n, |b, _| {
            b.iter(|| black_box(ops::slice(&ctx, &years, n / 2, Some(1000))))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_filter_kinds, bench_regex_engine, bench_order_by
}
criterion_main!(benches);
