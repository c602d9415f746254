//! QRAM router workload: tree graph states (paper §V.A benchmark 2).
//!
//! Tree graph states implement the routing layers of quantum random access
//! memory and the tree code of all-photonic repeaters. This example compiles
//! binary trees of growing depth and reports the emitter-emitter CNOT count,
//! duration, and photon-loss figures for the baseline and the framework.
//!
//! Run with: `cargo run --release --example qram_tree`

use epgs::{FrameworkConfig, Pipeline};
use epgs_circuit::circuit_metrics;
use epgs_graph::generators;
use epgs_hardware::HardwareModel;
use epgs_solver::{solve_baseline, BaselineOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hw = HardwareModel::quantum_dot();
    let pipeline = Pipeline::new(FrameworkConfig::default());

    println!(
        "{:>7} {:>14} {:>14} {:>12} {:>12}",
        "qubits", "base ee-CNOT", "ours ee-CNOT", "base loss", "ours loss"
    );
    for n in [7usize, 10, 15, 21, 31] {
        let g = generators::tree(n, 2);
        let base = solve_baseline(&g, &hw, &BaselineOptions::default())?;
        let base_m = circuit_metrics(&hw, &base.circuit);
        let ours = pipeline.compile(&g)?;
        println!(
            "{:>7} {:>14} {:>14} {:>12.4} {:>12.4}",
            n,
            base_m.ee_two_qubit_count,
            ours.metrics.ee_two_qubit_count,
            base_m.loss.mean_photon_loss,
            ours.metrics.loss.mean_photon_loss,
        );
    }
    println!("\nloss = mean per-photon loss probability at 0.5 %/τ_QD");
    Ok(())
}
