//! Heuristic ablation benchmark: plan the whole workload with each
//! heuristic disabled in turn and execute the resulting plans — measuring
//! how much each of H1–H5 (and the deterministic tie-break) contributes to
//! end-to-end time. This quantifies what the paper's §6.2.1 argues
//! qualitatively.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hsp_core::{HspConfig, HspPlanner};
use hsp_datagen::{
    generate_sp2bench, generate_yago, workload, DatasetKind, Sp2BenchConfig, YagoConfig,
};
use hsp_engine::{execute, ExecConfig};

fn bench_ablation(c: &mut Criterion) {
    let sp2b = generate_sp2bench(Sp2BenchConfig::with_triples(100_000));
    let yago = generate_yago(YagoConfig::with_triples(80_000));

    let variants: Vec<(&str, HspConfig)> = vec![
        ("default", HspConfig::default()),
        (
            "no-H1",
            HspConfig {
                use_h1_order: false,
                ..Default::default()
            },
        ),
        (
            "no-H2",
            HspConfig {
                use_h2: false,
                ..Default::default()
            },
        ),
        (
            "no-H3",
            HspConfig {
                use_h3: false,
                ..Default::default()
            },
        ),
        (
            "no-H4",
            HspConfig {
                use_h4: false,
                ..Default::default()
            },
        ),
        (
            "no-H5",
            HspConfig {
                use_h5: false,
                ..Default::default()
            },
        ),
        ("random", HspConfig::random_tiebreak(7)),
    ];

    let mut group = c.benchmark_group("ablation_workload_exec");
    group.sample_size(10);
    for (name, config) in variants {
        let planner = HspPlanner::with_config(config);
        // Pre-plan all queries with this variant.
        let planned: Vec<_> = workload()
            .into_iter()
            .map(|q| {
                let ds = match q.dataset {
                    DatasetKind::Sp2Bench => &sp2b,
                    DatasetKind::Yago => &yago,
                };
                (planner.plan(&q.parse()).expect("plannable"), ds)
            })
            .collect();
        group.bench_function(BenchmarkId::new("variant", name), |b| {
            b.iter(|| {
                for (plan, ds) in &planned {
                    black_box(execute(&plan.plan, ds, &ExecConfig::unlimited()).expect("executes"));
                }
            })
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
    targets = bench_ablation
}
criterion_main!(benches);
