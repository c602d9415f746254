//! Criterion benchmarks of the end-to-end framework: partition, subgraph
//! compilation, scheduling, and full compiles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use epgs_bench::bench_framework;
use epgs_graph::generators;
use epgs_partition::{partition_with_lc, PartitionSpec};

fn bench_full_compile(c: &mut Criterion) {
    let pipeline = bench_framework();
    let mut group = c.benchmark_group("framework_compile");
    for (name, g) in [
        ("lattice4x4", generators::lattice(4, 4)),
        ("tree22", generators::tree(22, 2)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &g, |b, g| {
            b.iter(|| pipeline.compile(g).expect("compiles"))
        });
    }
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let g = generators::lattice(5, 6);
    let spec = PartitionSpec {
        g_max: 7,
        lc_budget: 4,
        effort: 8,
        seed: 1,
        ..Default::default()
    };
    c.bench_function("partition_lattice5x6_lc4", |b| {
        b.iter(|| partition_with_lc(&g, &spec))
    });
    let spec0 = PartitionSpec {
        lc_budget: 0,
        ..spec
    };
    c.bench_function("partition_lattice5x6_lc0", |b| {
        b.iter(|| partition_with_lc(&g, &spec0))
    });
}

fn bench_budget_sweep(c: &mut Criterion) {
    // The staged sweep must come in well under k × a full compile: the
    // partition + leaf-compile prefix runs once, only schedule → recombine →
    // verify repeats per budget.
    let pipeline = bench_framework();
    let g = generators::lattice(4, 4);
    let budgets: Vec<usize> = (1..=4).collect();
    let mut group = c.benchmark_group("budget_sweep_lattice4x4");
    group.bench_function("pointwise_4_compiles", |b| {
        b.iter(|| {
            budgets
                .iter()
                .map(|&k| {
                    pipeline
                        .partition(&g)
                        .plan_leaves()
                        .and_then(|planned| planned.schedule(k).recombine())
                        .and_then(|r| r.verify())
                        .expect("compiles")
                })
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("staged_reuse", |b| {
        b.iter(|| pipeline.sweep(&g, &budgets).expect("sweeps"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_full_compile, bench_partition, bench_budget_sweep
}
criterion_main!(benches);
