//! Batch-engine integration tests: the full default corpus compiles and
//! verifies end to end, and the artifact cache behaves across passes.

use std::sync::Arc;

use epgs::faults::FaultPlan;
use epgs::{BatchCompiler, BatchInstance, CacheOutcome, FrameworkConfig, PartitionSpec};
use epgs_corpus::CorpusSpec;
use epgs_graph::canon::canonical_hash;

fn corpus_jobs() -> Vec<BatchInstance> {
    CorpusSpec::default_corpus()
        .instances()
        .into_iter()
        .map(|i| BatchInstance::new(i.id, i.family, i.graph))
        .collect()
}

fn quick_config() -> FrameworkConfig {
    FrameworkConfig {
        partition: PartitionSpec {
            g_max: 5,
            lc_budget: 3,
            effort: 4,
            ..Default::default()
        },
        orderings_per_subgraph: 4,
        ..Default::default()
    }
}

#[test]
fn full_default_corpus_compiles_and_verifies() {
    let jobs = corpus_jobs();
    assert!(jobs.len() >= 20, "default corpus meets the 5×4 floor");

    let batch = BatchCompiler::new(quick_config());
    let report = batch.run(&jobs);
    for r in &report.instances {
        assert!(
            r.ok(),
            "{} failed: {}",
            r.id,
            r.error.as_deref().unwrap_or("unknown")
        );
    }
    assert_eq!(report.succeeded, jobs.len());
    assert_eq!(report.failed, 0);
    // The default corpus is content-diverse: no two instances share a
    // canonical hash, so pass 1 runs entirely without cache help.
    assert_eq!(report.distinct_canonical, jobs.len());
    assert_eq!(report.cache_hits, 0);
    // Five family rollups, each fully successful.
    assert_eq!(report.families.len(), 5);
    for f in &report.families {
        assert!(f.instances >= 4, "{}: 4-instance floor", f.family);
        assert_eq!(f.succeeded, f.instances, "{}", f.family);
    }

    // Pass 2 over the same corpus: every expensive prefix is cached, the
    // pipeline's partition/plan counters do not move, and outputs verify
    // identically.
    let partitions_after_pass1 = batch.pipeline().counters().partition;
    let again = batch.run(&jobs);
    assert_eq!(again.succeeded, jobs.len());
    assert_eq!(again.cache_hits, jobs.len(), "repeated run hits every time");
    assert!(again.instances.iter().all(|r| r.cache == CacheOutcome::Hit));
    assert_eq!(
        batch.pipeline().counters().partition,
        partitions_after_pass1,
        "cache hits must skip the partition stage"
    );
}

#[test]
fn corpus_spec_json_round_trip_preserves_canonical_content() {
    // A corpus shipped as JSON (the corpus_run --spec path) regenerates
    // byte-identical targets: same ids, same canonical hashes.
    let spec = CorpusSpec::default_corpus();
    let reloaded = CorpusSpec::from_json(&spec.to_json()).expect("round trip");
    let a = spec.instances();
    let b = reloaded.instances();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.graph, y.graph);
        assert_eq!(canonical_hash(&x.graph), canonical_hash(&y.graph));
    }
}

#[test]
fn batch_report_json_is_loadable() {
    // The emitted report parses with the corpus crate's own JSON reader
    // and carries the headline counters.
    let batch = BatchCompiler::new(quick_config());
    let jobs: Vec<BatchInstance> = corpus_jobs().into_iter().take(6).collect();
    let report = batch.run(&jobs);
    let doc = epgs_corpus::Value::parse(&report.to_json()).expect("report JSON parses");
    assert_eq!(
        doc.get("succeeded").and_then(|v| v.as_usize()),
        Some(report.succeeded)
    );
    assert_eq!(
        doc.get("instances")
            .and_then(|v| v.as_arr())
            .map(|a| a.len()),
        Some(jobs.len())
    );
    let hist = doc.get("wall_histogram").expect("histogram present");
    let total: usize = epgs::batch::WALL_BUCKET_LABELS
        .iter()
        .filter_map(|l| hist.get(l).and_then(|v| v.as_usize()))
        .sum();
    assert_eq!(total, jobs.len(), "histogram covers every instance");
}

#[test]
fn mixed_valid_and_failing_instances_do_not_abort_the_batch() {
    // An armed `batch.compile` fault fails every compile; the batch must
    // record each failure and keep compiling the rest.
    let mut batch = BatchCompiler::new(quick_config());
    batch.set_fault_plan(Arc::new(
        FaultPlan::parse("batch.compile:fail").expect("plan parses"),
    ));
    let jobs: Vec<BatchInstance> = corpus_jobs().into_iter().take(3).collect();
    let report = batch.run(&jobs);
    assert_eq!(report.succeeded, 0);
    assert_eq!(report.failed, 3);
    assert!(report.instances.iter().all(|r| r
        .error
        .as_deref()
        .is_some_and(|e| e.contains("injected fault"))));
    // And the same instances under a sane config still pass.
    let good = BatchCompiler::new(quick_config());
    assert_eq!(good.run(&jobs).succeeded, 3);
}
