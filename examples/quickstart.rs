//! Quickstart: compile the paper's Figure 1(b) four-photon graph state,
//! one pipeline stage at a time.
//!
//! The target entangles photons p0–p3 with edges {p0-p1, p0-p2, p1-p3,
//! p2-p3} (a 4-cycle). Compilation is a five-stage pipeline (paper Fig. 6)
//! and each stage below is called explicitly, so you can see the artifact
//! it produces and what that artifact is for:
//!
//! ```text
//! partition → plan_leaves → schedule → recombine → verify
//! ```
//!
//! The example also runs the plain time-reversed baseline first,
//! reproducing the Fig. 1(c) vs Fig. 1(d) contrast of the paper.
//!
//! Run with: `cargo run --example quickstart`

use epgs::{EmitterBudget, FrameworkConfig, PartitionSpec, Pipeline};
use epgs_graph::Graph;
use epgs_hardware::HardwareModel;
use epgs_solver::{solve_baseline, BaselineOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 1(b): p0-p1, p0-p2, p1-p3, p2-p3.
    let target = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])?;
    println!(
        "target: 4 photons, {} entanglement edges\n",
        target.edge_count()
    );

    let hw = HardwareModel::quantum_dot();

    // Unoptimized reference (Fig. 1c): one whole-graph time-reversed solve
    // with no partitioning, no local complementation, and no scheduling.
    // Everything the pipeline does below is aimed at beating this circuit's
    // emitter-emitter CNOT count and duration.
    let baseline = solve_baseline(
        &target,
        &hw,
        &BaselineOptions {
            restarts: 0,
            ..BaselineOptions::default()
        },
    )?;
    println!("--- baseline (Li et al. / GraphiQ-style) ---");
    println!("{}", baseline.circuit);

    // A Pipeline is a FrameworkConfig plus stage counters. `compile` runs
    // every stage in one call; driving the stages by hand, as below, yields
    // the same circuit and keeps each intermediate artifact — every stage
    // method takes `&self`, so one expensive prefix can fan out into many
    // cheap suffixes.
    let pipeline = Pipeline::new(FrameworkConfig {
        partition: PartitionSpec {
            g_max: 7,
            lc_budget: 15,
            ..Default::default()
        },
        emitter_budget: EmitterBudget::Factor(1.5),
        ..Default::default()
    });

    // Stage 1 — partition (§IV.A): split the target into blocks of at most
    // g_max vertices, using up to lc_budget local complementations to
    // shrink the number of edges crossing between blocks (each LC costs
    // only single-qubit photon gates later, so trading LCs for cut edges is
    // almost free). The artifact also records Ne_min, the smallest emitter
    // count any known deterministic ordering needs for this target — the
    // reference point emitter budgets are expressed against.
    let partitioned = pipeline.partition(&target);
    println!("--- staged pipeline ---");
    println!(
        "partition: {} blocks, cut {}, Ne_min {}",
        partitioned
            .partition()
            .blocks()
            .iter()
            .filter(|b| !b.is_empty())
            .count(),
        partitioned.partition().cut,
        partitioned.ne_min()
    );

    // Stage 2 — plan leaves (§IV.B): compile each block's induced subgraph
    // near-optimally, in parallel across blocks, to one circuit per block
    // (the paper's extra "flexible" emitter variants were measured
    // identical to that circuit and dropped). This is the expensive prefix:
    // hold the returned `Planned` and you never pay for it again — the
    // batch engine's artifact cache stores exactly this artifact.
    let planned = partitioned.plan_leaves()?;
    println!("planned:   {} leaf plans", planned.plans().len());

    // Stage 3 — schedule (§IV.C): Tetris-pack the leaf circuits onto a
    // shared timeline under the resolved emitter budget Ne_limit
    // (1.5 × Ne_min here). Scheduling is the first budget-dependent stage,
    // so an Ne_limit sweep calls `planned.schedule(b)` once per budget and
    // reuses everything upstream.
    let scheduled = planned.schedule(planned.configured_budget());
    println!(
        "scheduled: makespan {:.2} τ under {} emitters",
        scheduled.schedule().makespan,
        scheduled.ne_limit()
    );

    // Stage 4 — recombine (§IV.D): assemble one global circuit. Candidate
    // strategies — the schedule-interleaved solve, a block-sequential
    // solve, and a direct whole-graph solve that lets the framework
    // degrade gracefully when partitioning doesn't pay — compete under the
    // configured CompileObjective. The default, `Emitters`, is the paper's
    // lexicographic (#ee-CNOT, then T_loss, then duration) order; swap in
    // `CompileObjective::Duration` and the configured platform's timing
    // decides instead (to compare platforms, build one pipeline per
    // `config.hardware`, as `paper_eval hardware` does). The artifact
    // records which strategy and objective won.
    let recombined = scheduled.recombine()?;
    println!(
        "recombined via {:?} under the {} objective",
        recombined.strategy(),
        recombined.objective().kind_name()
    );

    // Stage 5 — verify (§IV.E): simulate the circuit with the stabilizer
    // tableau and check it generates exactly |target⟩ — the acceptance
    // oracle that makes every optimization above safe. The result bundles
    // the circuit with its metrics, partition, schedule, and provenance.
    let compiled = recombined.verify()?;
    println!("{}", compiled.circuit);
    println!("{}", epgs::report::render(&compiled));

    println!(
        "ee-CNOTs: baseline {} vs framework {}",
        baseline.circuit.ee_two_qubit_count(),
        compiled.metrics.ee_two_qubit_count
    );
    Ok(())
}
