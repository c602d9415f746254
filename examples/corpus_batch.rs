//! Batch-compile a three-family corpus through the artifact cache.
//!
//! Demonstrates the corpus layer end to end: declare a `CorpusSpec` grid,
//! materialize its instances, hand them to a `BatchCompiler`, and read the
//! per-instance and aggregate reports — then run the same corpus again to
//! show every verified result being served from the content-addressed
//! cache.
//!
//! Run with: `cargo run --release --example corpus_batch`

use epgs::{BatchCompiler, BatchInstance, CacheOutcome, FrameworkConfig, PartitionSpec};
use epgs_corpus::{CorpusSpec, FamilyKind, FamilySpec};

fn main() {
    // A three-family grid: hypercubes by dimension, 3-regular graphs and
    // small-world rings by vertex count. Serializable — print it to see the
    // JSON a corpus_run `--spec` file would contain.
    let spec = CorpusSpec::new(
        "three-family-demo",
        vec![
            FamilySpec::new(FamilyKind::Hypercube, vec![2, 3, 4]),
            FamilySpec::new(FamilyKind::RandomRegular { degree: 3 }, vec![10, 12, 14]),
            FamilySpec::new(
                FamilyKind::WattsStrogatz {
                    neighbors: 4,
                    beta: 0.2,
                },
                vec![10, 12, 14],
            ),
        ],
    );
    println!("spec JSON: {}\n", spec.to_json());

    let jobs: Vec<BatchInstance> = spec
        .instances()
        .into_iter()
        .map(|i| BatchInstance::new(i.id, i.family, i.graph))
        .collect();

    let batch = BatchCompiler::new(FrameworkConfig {
        partition: PartitionSpec {
            g_max: 6,
            lc_budget: 4,
            effort: 5,
            ..Default::default()
        },
        orderings_per_subgraph: 6,
        ..Default::default()
    });

    for pass in 1..=2 {
        let report = batch.run(&jobs);
        println!("--- pass {pass} ---");
        for r in &report.instances {
            let cache = match r.cache {
                CacheOutcome::Hit => "hit ",
                CacheOutcome::DiskHit => "disk",
                CacheOutcome::Miss => "miss",
            };
            match &r.metrics {
                Some(m) => println!(
                    "{:<24} {:>2}v {:>2}e  cache {cache}  Ne {}→{}  ee-CNOTs {:>2}  {:>7.2} τ  [{:?}]",
                    r.id, r.vertices, r.edges, m.ne_min, m.ne_limit, m.ee_cnots, m.duration, m.strategy
                ),
                None => println!(
                    "{:<24} {:>2}v {:>2}e  cache {cache}  FAILED: {}",
                    r.id,
                    r.vertices,
                    r.edges,
                    r.error.as_deref().unwrap_or("unknown")
                ),
            }
        }
        println!(
            "{}/{} ok, {} cache hits, {} distinct graphs, Σ wall {:.2} s\n",
            report.succeeded,
            report.instances.len(),
            report.cache_hits,
            report.distinct_canonical,
            report.total_wall_micros as f64 / 1e6,
        );
    }

    let stats = batch.cache_stats();
    println!(
        "cache counters: {} hits / {} misses ({} entries live)",
        stats.hits,
        stats.misses,
        batch.cache_len()
    );
}
