//! Execution-time benchmarks on the YAGO-like dataset (Table 8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hsp_baseline::{plan, Planner};
use hsp_datagen::{generate_yago, workload, DatasetKind, YagoConfig};
use hsp_engine::{execute, ExecConfig};

fn bench_exec(c: &mut Criterion) {
    let triples = std::env::var("HSP_BENCH_TRIPLES")
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .unwrap_or(150_000);
    let ds = generate_yago(YagoConfig::with_triples(triples));
    let config = ExecConfig::unlimited();

    let mut group = c.benchmark_group("exec_yago");
    for q in workload()
        .into_iter()
        .filter(|q| q.dataset == DatasetKind::Yago)
    {
        let parsed = q.parse();
        for kind in Planner::PAPER {
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
