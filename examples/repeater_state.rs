//! All-photonic repeater graph states (Azuma et al.) with QASM export.
//!
//! Repeater graph states (a complete core with one leaf per core vertex) are
//! the resource of all-photonic quantum repeaters — the workload of Kaur et
//! al.'s loss-aware generation study cited by the paper. This example
//! compiles an RGS, prints the loss report, and exports the circuit as
//! OpenQASM-flavored text.
//!
//! Run with: `cargo run --release --example repeater_state`

use epgs::{FrameworkConfig, Pipeline};
use epgs_circuit::qasm;
use epgs_graph::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = generators::repeater_graph_state(2); // 8 photons
    println!(
        "RGS m=2: {} photons, {} edges",
        g.vertex_count(),
        g.edge_count()
    );

    let pipeline = Pipeline::new(FrameworkConfig::default());
    let compiled = pipeline.compile(&g)?;
    println!("{}", epgs::report::render(&compiled));

    println!(
        "survival probability of all photons: {:.4}",
        1.0 - compiled.metrics.loss.any_photon_loss
    );
    println!("\nOpenQASM export:\n{}", qasm::to_qasm(&compiled.circuit));
    Ok(())
}
