//! Operator micro-benchmarks: the merge-join vs hash-join asymmetry the
//! whole paper is built on, scan-select throughput, and the vectorized
//! kernels against their row-at-a-time predecessors
//! ([`hsp_engine::reference`]).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use hsp_bench::kernels::{assert_kernels_agree, join_inputs};
use hsp_engine::{ops, reference, ExecContext};
use hsp_rdf::Term;
use hsp_sparql::{TermOrVar, TriplePattern, Var};
use hsp_store::{Dataset, Order};

fn bench_joins(c: &mut Criterion) {
    let ctx = ExecContext::new();
    let mut group = c.benchmark_group("joins");
    for n in [1_000usize, 10_000, 100_000] {
        let (left, right) = join_inputs(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("merge_join", n), |b| {
            b.iter(|| black_box(ops::merge_join(&ctx, &left, &right, Var(0))))
        });
        group.bench_function(BenchmarkId::new("hash_join", n), |b| {
            b.iter(|| black_box(ops::hash_join(&ctx, &left, &right, &[Var(0)])))
        });
    }
    group.finish();
}

/// Vectorized kernels vs. the retired row-at-a-time kernels: the before /
/// after of the zero-allocation join rework. Outputs are asserted
/// identical (as sorted row-sets) before timing.
fn bench_kernels_vs_reference(c: &mut Criterion) {
    let ctx = ExecContext::new();
    let mut group = c.benchmark_group("kernels");
    for n in [10_000usize, 100_000] {
        let (left, right) = join_inputs(n, 42);
        assert_kernels_agree(&left, &right);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("hash_join/rowwise", n), |b| {
            b.iter(|| black_box(reference::hash_join(&left, &right, &[Var(0)])))
        });
        group.bench_function(BenchmarkId::new("hash_join/vectorized", n), |b| {
            b.iter(|| black_box(ops::hash_join(&ctx, &left, &right, &[Var(0)])))
        });
        group.bench_function(BenchmarkId::new("merge_join/rowwise", n), |b| {
            b.iter(|| black_box(reference::merge_join(&left, &right, Var(0))))
        });
        group.bench_function(BenchmarkId::new("merge_join/vectorized", n), |b| {
            b.iter(|| black_box(ops::merge_join(&ctx, &left, &right, Var(0))))
        });
    }
    group.finish();
}

fn bench_scans(c: &mut Criterion) {
    let ctx = ExecContext::new();
    // A dataset with one dominant predicate.
    let mut doc = String::new();
    for i in 0..50_000 {
        doc.push_str(&format!(
            "<http://e/s{}> <http://e/p{}> <http://e/o{}> .\n",
            i % 10_000,
            i % 7,
            i % 500
        ));
    }
    let ds = Dataset::from_ntriples(&doc).unwrap();
    let p0 = TermOrVar::Const(Term::iri("http://e/p0"));

    let mut group = c.benchmark_group("scans");
    let bound = TriplePattern::new(TermOrVar::Var(Var(0)), p0, TermOrVar::Var(Var(1)));
    group.bench_function("bound_predicate_pso", |b| {
        b.iter(|| black_box(ops::scan(&ctx, &ds, &bound, Order::Pso)))
    });
    let full = TriplePattern::new(
        TermOrVar::Var(Var(0)),
        TermOrVar::Var(Var(1)),
        TermOrVar::Var(Var(2)),
    );
    group.bench_function("full_scan_spo", |b| {
        b.iter(|| black_box(ops::scan(&ctx, &ds, &full, Order::Spo)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_joins, bench_kernels_vs_reference, bench_scans
}
criterion_main!(benches);
