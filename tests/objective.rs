//! Objective layer: bit-identity of the default, platform divergence,
//! determinism, and the loss figures flowing into reports.

use epgs::{BatchCompiler, BatchInstance, CompileObjective, FrameworkConfig, Pipeline};
use epgs_circuit::simulate::verify_circuit;
use epgs_corpus::{CorpusSpec, FamilyKind};
use epgs_graph::generators;
use epgs_hardware::HardwareModel;
use epgs_serve::default_config;

/// The default-corpus instance `watts_strogatz-n10-s3` (see
/// `CorpusSpec::default_corpus`), a known strategy-divergence case.
fn divergent_instance() -> epgs_graph::Graph {
    let spec = CorpusSpec::default_corpus();
    let family = spec
        .families
        .iter()
        .find(|f| matches!(f.kind, FamilyKind::WattsStrogatz { .. }))
        .expect("default corpus has a Watts-Strogatz family");
    family.kind.build(10, family.seeds[0])
}

#[test]
fn emitters_objective_is_bit_identical_to_default() {
    // The acceptance bar for the objective layer: making the historic
    // behavior an explicit objective must not change a single bit of it.
    let g = generators::lattice(3, 4);
    let implicit = Pipeline::new(default_config()).compile(&g).unwrap();
    let explicit = Pipeline::new(FrameworkConfig {
        objective: CompileObjective::Emitters,
        ..default_config()
    })
    .compile(&g)
    .unwrap();
    assert_eq!(implicit.circuit, explicit.circuit);
    assert_eq!(implicit.metrics, explicit.metrics);
    assert_eq!(implicit.strategy, explicit.strategy);
    assert_eq!(implicit.global_ordering, explicit.global_ordering);
    assert_eq!(explicit.objective, CompileObjective::Emitters);
}

#[test]
fn presets_select_different_strategies_on_a_default_corpus_instance() {
    // Under a duration objective, the same target compiled for quantum
    // dots and for Rydberg superatoms picks different recombination
    // strategies at the same emitter budget — platform timing, not a
    // hard-coded tiebreak, decides. Both circuits still verify.
    let g = divergent_instance();
    let mut compiled = Vec::new();
    for hw in [HardwareModel::quantum_dot(), HardwareModel::rydberg()] {
        let config = FrameworkConfig {
            hardware: hw,
            objective: CompileObjective::Duration,
            ..default_config()
        };
        let c = Pipeline::new(config)
            .partition(&g)
            .plan_leaves()
            .and_then(|p| p.schedule(3).recombine())
            .and_then(|r| r.verify())
            .unwrap();
        assert!(verify_circuit(&c.circuit, &g).unwrap());
        compiled.push(c);
    }
    assert_ne!(
        compiled[0].strategy, compiled[1].strategy,
        "presets must drive strategy selection apart on this instance"
    );
    // And the platform metrics differ measurably either way.
    assert!((compiled[0].metrics.duration - compiled[1].metrics.duration).abs() > 0.1);
}

#[test]
fn objective_strategy_selection_is_deterministic() {
    let g = divergent_instance();
    for hardware in [HardwareModel::rydberg(), HardwareModel::nv_center()] {
        for objective in [CompileObjective::Emitters, CompileObjective::Duration] {
            let config = FrameworkConfig {
                hardware: hardware.clone(),
                objective,
                ..default_config()
            };
            let pipeline = Pipeline::new(config);
            let a = pipeline.compile(&g).unwrap();
            let b = pipeline.compile(&g).unwrap();
            let label = format!("{} on {}", objective.kind_name(), hardware.name);
            assert_eq!(a.circuit, b.circuit, "{label}");
            assert_eq!(a.strategy, b.strategy, "{label}");
            assert_eq!(a.objective, objective);
            assert!(verify_circuit(&a.circuit, &g).unwrap());
        }
    }
}

#[test]
fn duration_objective_never_recombines_slower_than_emitters() {
    // The duration objective steers both leaf-variant selection and the
    // recombination competition toward shorter circuits. Scoring happens
    // before the peephole cleanup while the durations compared here are
    // post-cleanup, so this is a seeded regression check of current
    // behavior rather than a theorem: if it ever fails, check whether
    // cleanup shortened the default's winner more — that is legal —
    // before suspecting the objective layer.
    let default = Pipeline::new(default_config());
    let fast = Pipeline::new(FrameworkConfig {
        objective: CompileObjective::Duration,
        ..default_config()
    });
    for g in [
        divergent_instance(),
        generators::lattice(3, 4),
        generators::tree(12, 2),
    ] {
        let at_three = |p: &Pipeline| {
            p.partition(&g)
                .plan_leaves()
                .and_then(|planned| planned.schedule(3).recombine())
                .unwrap()
        };
        let (default, fast) = (at_three(&default), at_three(&fast));
        assert!(fast.metrics().duration <= default.metrics().duration + 1e-9);
        fast.verify().unwrap();
    }
}

#[test]
fn batch_reports_carry_hardware_objective_and_loss_figures() {
    let config = FrameworkConfig {
        hardware: HardwareModel::nv_center(),
        objective: CompileObjective::Duration,
        ..default_config()
    };
    let batch = BatchCompiler::new(config);
    let report = batch.run(&[
        BatchInstance::new("l33", "lattice", generators::lattice(3, 3)),
        BatchInstance::new("t9", "tree", generators::tree(9, 2)),
    ]);
    assert_eq!(report.succeeded, 2);
    assert_eq!(report.hardware, "NV color center");
    assert_eq!(report.objective, "duration");
    for inst in &report.instances {
        let m = inst.metrics.as_ref().expect("succeeded");
        assert!(m.mean_photon_loss >= 0.0 && m.mean_photon_loss < 1.0);
        assert!(m.any_photon_loss >= m.mean_photon_loss - 1e-12);
        assert!(m.t_loss >= 0.0);
    }
    let json = report.to_json();
    assert!(json.contains("\"hardware\":\"NV color center\""));
    assert!(json.contains("\"objective\":\"duration\""));
    assert!(json.contains("\"mean_photon_loss\":"));
    assert!(json.contains("\"any_photon_loss\":"));
    assert!(json.contains("\"t_loss\":"));
}

#[test]
fn distinct_objectives_cache_apart_in_the_batch_engine() {
    // The artifact cache must never serve a plan selected under one
    // objective, or on one platform, to a run with another: objective
    // kinds and `config.hardware` both fingerprint apart.
    let fingerprint = |hardware: HardwareModel, objective: CompileObjective| {
        epgs::config_fingerprint(&FrameworkConfig {
            hardware,
            objective,
            ..default_config()
        })
    };
    let emitters_qd = fingerprint(HardwareModel::quantum_dot(), CompileObjective::Emitters);
    let duration_qd = fingerprint(HardwareModel::quantum_dot(), CompileObjective::Duration);
    let duration_rydberg = fingerprint(HardwareModel::rydberg(), CompileObjective::Duration);
    assert_eq!(emitters_qd, epgs::config_fingerprint(&default_config()));
    assert_ne!(emitters_qd, duration_qd, "same platform, different kind");
    assert_ne!(
        duration_qd, duration_rydberg,
        "same kind, different platform"
    );
}

#[test]
fn compiled_loss_report_matches_metrics() {
    let c = Pipeline::new(default_config())
        .compile(&generators::tree(10, 2))
        .unwrap();
    let report = c.loss_report();
    assert_eq!(report, &c.metrics.loss);
    assert_eq!(report.exposures.len(), 10, "one exposure per photon");
    assert!((report.mean_exposure - c.metrics.t_loss).abs() < 1e-12);
}

#[test]
fn shipped_config_fingerprints_are_pinned() {
    // Stores key artifacts by `config_fingerprint`, so a change to the
    // fingerprint of a config that ships invalidates every store written
    // under it. These literals move only on purpose.
    let pins = [
        (
            "FrameworkConfig::default",
            FrameworkConfig::default(),
            0x8b40_8560_d71d_228c,
        ),
        (
            "bench_framework",
            epgs_bench::bench_framework().config().clone(),
            0x7a26_e714_7494_2e52,
        ),
        (
            "serve default_config",
            default_config(),
            0x7643_6868_26b3_2934,
        ),
    ];
    for (name, config, pinned) in pins {
        let fp = epgs::config_fingerprint(&config);
        assert_eq!(fp, pinned, "{name}: {fp:#018x}");
    }
}
