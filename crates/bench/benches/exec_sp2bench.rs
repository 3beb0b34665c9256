//! Execution-time benchmarks on the SP2Bench-like dataset (Table 7).
//!
//! Each workload query is planned once per planner and the *execution* is
//! benchmarked (warm, as in the paper). The SQL baseline is skipped for
//! SP4a, whose left-deep plan is a guarded Cartesian product ("XXX").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hsp_baseline::{plan, Planner};
use hsp_datagen::{generate_sp2bench, workload, DatasetKind, Sp2BenchConfig};
use hsp_engine::{execute, ExecConfig};

fn bench_exec(c: &mut Criterion) {
    let triples = std::env::var("HSP_BENCH_TRIPLES")
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .unwrap_or(200_000);
    let ds = generate_sp2bench(Sp2BenchConfig::with_triples(triples));
    let config = ExecConfig::unlimited();

    let mut group = c.benchmark_group("exec_sp2bench");
    for q in workload()
        .into_iter()
        .filter(|q| q.dataset == DatasetKind::Sp2Bench)
    {
        let parsed = q.parse();
        for kind in Planner::PAPER {
            if kind == Planner::Sql && q.id == "SP4a" {
                continue; // Cartesian product — reported as XXX in table7.
            }
            let Ok(planned) = plan(kind, &ds, &parsed) else {
                continue;
            };
            group.bench_function(BenchmarkId::new(kind.name(), q.id), |b| {
                b.iter(|| black_box(execute(&planned.plan, &ds, &config).unwrap()))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_exec
}
criterion_main!(benches);
