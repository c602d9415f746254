//! End-to-end integration tests spanning every crate: targets from all
//! benchmark families are compiled by both the baseline and the framework,
//! and every circuit is re-verified here (independently of the framework's
//! internal verification).

use rand::rngs::StdRng;
use rand::SeedableRng;

use epgs::{EmitterBudget, FrameworkConfig, Pipeline};
use epgs_circuit::simulate::verify_circuit;
use epgs_graph::{generators, Graph};
use epgs_hardware::HardwareModel;
use epgs_solver::{solve_baseline, BaselineOptions};

fn quick_config() -> FrameworkConfig {
    FrameworkConfig {
        partition: epgs_partition::PartitionSpec {
            g_max: 7,
            lc_budget: 4,
            effort: 5,
            seed: 3,
            ..Default::default()
        },
        orderings_per_subgraph: 5,
        ..FrameworkConfig::default()
    }
}

fn family_targets() -> Vec<(String, Graph)> {
    let mut rng = StdRng::seed_from_u64(17);
    vec![
        ("lattice 3x4".into(), generators::lattice(3, 4)),
        ("lattice 4x4".into(), generators::lattice(4, 4)),
        ("tree 15/2".into(), generators::tree(15, 2)),
        ("tree 13/3".into(), generators::tree(13, 3)),
        (
            "waxman 15".into(),
            generators::waxman(15, 0.5, 0.2, &mut rng),
        ),
        (
            "waxman 12 dense".into(),
            generators::waxman(12, 0.9, 0.4, &mut rng),
        ),
        ("cycle 12".into(), generators::cycle(12)),
        ("rgs m=2".into(), generators::repeater_graph_state(2)),
        ("complete 7".into(), generators::complete(7)),
        ("star 12".into(), generators::star(12)),
        (
            "fig1b".into(),
            Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap(),
        ),
    ]
}

#[test]
fn framework_compiles_and_independently_verifies_every_family() {
    let pipeline = Pipeline::new(quick_config());
    for (name, g) in family_targets() {
        let compiled = pipeline
            .compile(&g)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            verify_circuit(&compiled.circuit, &g).unwrap(),
            "{name}: independent verification failed"
        );
        assert_eq!(
            compiled.circuit.emission_count(),
            g.vertex_count(),
            "{name}"
        );
    }
}

#[test]
fn baseline_compiles_and_verifies_every_family() {
    let hw = HardwareModel::quantum_dot();
    for (name, g) in family_targets() {
        let solved = solve_baseline(&g, &hw, &BaselineOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            verify_circuit(&solved.circuit, &g).unwrap(),
            "{name}: baseline verification failed"
        );
    }
}

#[test]
fn framework_never_uses_more_ee_cnots_than_edges_plus_overhead() {
    // Every edge can be realized by at most one emitter-emitter interaction
    // plus bounded bookkeeping; a gross violation signals a regression.
    let pipeline = Pipeline::new(quick_config());
    for (name, g) in family_targets() {
        let compiled = pipeline.compile(&g).unwrap();
        let bound = 2 * g.edge_count() + g.vertex_count();
        assert!(
            compiled.metrics.ee_two_qubit_count <= bound,
            "{name}: {} ee-CNOTs exceeds sanity bound {bound}",
            compiled.metrics.ee_two_qubit_count
        );
    }
}

#[test]
fn bigger_budget_never_slows_the_schedule() {
    let pipeline = Pipeline::new(quick_config());
    for (name, g) in [
        ("lattice 4x4", generators::lattice(4, 4)),
        ("tree 15/2", generators::tree(15, 2)),
    ] {
        let planned = pipeline.partition(&g).plan_leaves().unwrap();
        let ne_min = planned.ne_min();
        let tight = planned
            .schedule(ne_min)
            .recombine()
            .unwrap()
            .verify()
            .unwrap();
        let loose = planned
            .schedule(2 * ne_min)
            .recombine()
            .unwrap()
            .verify()
            .unwrap();
        assert!(
            loose.schedule.makespan <= tight.schedule.makespan + 1e-9,
            "{name}: schedule got worse with more emitters"
        );
    }
}

#[test]
fn framework_matches_or_beats_baseline_on_cnots_for_most_targets() {
    // The headline claim at small scale: across the families, the framework
    // reduces ee-CNOTs relative to the baseline in aggregate.
    let pipeline = Pipeline::new(quick_config());
    let hw = HardwareModel::quantum_dot();
    let mut base_total = 0usize;
    let mut ours_total = 0usize;
    for (_, g) in family_targets() {
        let base = solve_baseline(&g, &hw, &BaselineOptions::default()).unwrap();
        let ours = pipeline.compile(&g).unwrap();
        base_total += base.circuit.ee_two_qubit_count();
        ours_total += ours.metrics.ee_two_qubit_count;
    }
    assert!(
        ours_total <= base_total,
        "framework total ee-CNOTs {ours_total} exceeds baseline {base_total}"
    );
}

#[test]
fn factor_budgets_match_paper_settings() {
    let g = generators::lattice(3, 4);
    for factor in [1.5, 2.0] {
        let pipeline = Pipeline::new(FrameworkConfig {
            emitter_budget: EmitterBudget::Factor(factor),
            ..quick_config()
        });
        let compiled = pipeline.compile(&g).unwrap();
        let expect = ((compiled.ne_min as f64 * factor).ceil() as usize).max(1);
        assert_eq!(compiled.ne_limit, expect);
    }
}

#[test]
fn hardware_models_are_interchangeable() {
    for hw in [
        HardwareModel::quantum_dot(),
        HardwareModel::nv_center(),
        HardwareModel::siv_center(),
        HardwareModel::rydberg(),
    ] {
        let pipeline = Pipeline::new(FrameworkConfig {
            hardware: hw.clone(),
            ..quick_config()
        });
        let compiled = pipeline.compile(&generators::tree(10, 2)).unwrap();
        assert!(compiled.metrics.duration > 0.0, "{}", hw.name);
    }
}
