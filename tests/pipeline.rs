//! Staged-pipeline contract tests: the explicit Partition → Plan → Schedule
//! → Recombine → Verify path must be equivalent to the monolithic
//! `Pipeline::compile` call, artifacts must be reusable and deterministic,
//! and a k-budget sweep must run the expensive prefix exactly once.

use rand::rngs::StdRng;
use rand::SeedableRng;

use epgs::{Compiled, FrameworkConfig, PartitionSpec, Pipeline, RecombineStrategy};
use epgs_circuit::simulate::verify_circuit;
use epgs_graph::{generators, Graph};

fn quick_config() -> FrameworkConfig {
    FrameworkConfig {
        partition: PartitionSpec {
            g_max: 7,
            lc_budget: 4,
            effort: 5,
            ..Default::default()
        },
        orderings_per_subgraph: 5,
        ..Default::default()
    }
}

fn equivalence_targets() -> Vec<(String, Graph)> {
    let mut rng = StdRng::seed_from_u64(17);
    vec![
        ("lattice 3x4".into(), generators::lattice(3, 4)),
        ("tree 15/2".into(), generators::tree(15, 2)),
        (
            "waxman 14".into(),
            generators::waxman(14, 0.5, 0.2, &mut rng),
        ),
    ]
}

/// A full compile of `g` through a fresh pipeline at an explicit budget.
fn compile_at(g: &Graph, budget: usize) -> Compiled {
    Pipeline::new(quick_config())
        .partition(g)
        .plan_leaves()
        .and_then(|planned| planned.schedule(budget).recombine())
        .and_then(|r| r.verify())
        .unwrap_or_else(|e| panic!("budget {budget}: {e}"))
}

fn assert_same_compiled(name: &str, a: &Compiled, b: &Compiled) {
    assert_eq!(a.circuit, b.circuit, "{name}: circuit ops differ");
    assert_eq!(a.metrics, b.metrics, "{name}: metrics differ");
    assert_eq!(a.partition, b.partition, "{name}: partition differs");
    assert_eq!(
        a.global_ordering, b.global_ordering,
        "{name}: ordering differs"
    );
    assert_eq!(a.ne_limit, b.ne_limit, "{name}: ne_limit differs");
    assert_eq!(a.ne_min, b.ne_min, "{name}: ne_min differs");
    assert_eq!(a.strategy, b.strategy, "{name}: winning strategy differs");
}

#[test]
fn staged_pipeline_equals_monolithic_compile_on_every_family() {
    for (name, g) in equivalence_targets() {
        let monolith = Pipeline::new(quick_config())
            .compile(&g)
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        let pipeline = Pipeline::new(quick_config());
        let planned = pipeline
            .partition(&g)
            .plan_leaves()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let staged = planned
            .schedule(planned.configured_budget())
            .recombine()
            .and_then(|r| r.verify())
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        assert_same_compiled(&name, &staged, &monolith);
        assert!(
            verify_circuit(&staged.circuit, &g).unwrap(),
            "{name}: staged circuit fails independent verification"
        );
    }
}

#[test]
fn budget_sweep_runs_partition_and_leaf_compile_exactly_once() {
    let pipeline = Pipeline::new(quick_config());
    let g = generators::lattice(4, 4);
    let budgets = [2usize, 3, 4, 5];

    let planned = pipeline.partition(&g).plan_leaves().expect("plans");
    let swept: Vec<Compiled> = budgets
        .iter()
        .map(|&b| planned.schedule(b).recombine().unwrap().verify().unwrap())
        .collect();

    let counts = pipeline.counters();
    assert_eq!(counts.partition, 1, "partition must run once for the sweep");
    assert_eq!(
        counts.plan, 1,
        "leaf compilation must run once for the sweep"
    );
    assert_eq!(counts.schedule, budgets.len());
    assert_eq!(counts.recombine, budgets.len());
    assert_eq!(counts.verify, budgets.len());

    // Each sweep point must equal a fresh full compile at that budget.
    for (compiled, &budget) in swept.iter().zip(&budgets) {
        assert_eq!(compiled.ne_limit, budget);
        let pointwise = compile_at(&g, budget);
        assert_same_compiled(&format!("budget {budget}"), compiled, &pointwise);
    }
}

#[test]
fn rescheduling_a_cached_planned_artifact_is_reproducible() {
    let pipeline = Pipeline::new(quick_config());
    let mut rng = StdRng::seed_from_u64(23);
    let g = generators::waxman(13, 0.5, 0.2, &mut rng);
    let planned = pipeline.partition(&g).plan_leaves().expect("plans");
    let a = planned.schedule(3).recombine().unwrap().verify().unwrap();
    let b = planned.schedule(3).recombine().unwrap().verify().unwrap();
    assert_same_compiled("cached reschedule", &a, &b);
}

#[test]
fn replanning_from_a_cached_partitioned_artifact_is_reproducible() {
    let pipeline = Pipeline::new(quick_config());
    let g = generators::lattice(3, 4);
    let partitioned = pipeline.partition(&g);
    let a = partitioned.plan_leaves().expect("first plan");
    let b = partitioned.plan_leaves().expect("second plan");
    assert_eq!(a.partition(), b.partition());
    for (x, y) in a.plans().iter().zip(b.plans()) {
        assert_eq!(x.vertices, y.vertices);
        assert_eq!(x.solved.circuit, y.solved.circuit);
    }
}

#[test]
fn two_pipelines_same_seed_agree_end_to_end() {
    let g = generators::cycle(12);
    let a = Pipeline::new(quick_config()).compile(&g).unwrap();
    let b = Pipeline::new(quick_config()).compile(&g).unwrap();
    assert_same_compiled("fresh pipelines", &a, &b);
}

#[test]
fn direct_solve_only_pipeline_skips_partition_benefits_but_still_verifies() {
    let config = FrameworkConfig {
        partition: PartitionSpec {
            g_max: 7,
            lc_budget: 0,
            effort: 4,
            ..Default::default()
        },
        orderings_per_subgraph: 4,
        ..Default::default()
    };
    let g = generators::tree(12, 2);
    let planned = Pipeline::new(config).partition(&g).plan_leaves().unwrap();
    let compiled = planned
        .schedule(planned.configured_budget())
        .recombine_with(&[RecombineStrategy::DirectSolve])
        .and_then(|r| r.verify())
        .unwrap();
    assert_eq!(compiled.strategy, RecombineStrategy::DirectSolve);
    assert!(verify_circuit(&compiled.circuit, &g).unwrap());
}
