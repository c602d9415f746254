//! Distributed-QC workload: Waxman random topologies (paper §V.A benchmark 3).
//!
//! Waxman graphs model the communication topologies of distributed quantum
//! computing and quantum networks. This example partitions one instance with
//! and without local complementation (paper Fig. 11b), prints the cut sizes
//! and a Graphviz rendering of the partition, then compiles and verifies the
//! full circuit.
//!
//! Run with: `cargo run --release --example network_waxman`

use epgs::{FrameworkConfig, Pipeline};
use epgs_graph::{dot, generators};
use epgs_partition::{partition_with_lc, PartitionSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(42);
    let g = generators::waxman(16, 0.5, 0.2, &mut rng);
    println!(
        "Waxman graph: {} vertices, {} edges",
        g.vertex_count(),
        g.edge_count()
    );

    let spec_no_lc = PartitionSpec {
        lc_budget: 0,
        ..PartitionSpec::default()
    };
    let spec_lc = PartitionSpec::default();
    let p0 = partition_with_lc(&g, &spec_no_lc);
    let p1 = partition_with_lc(&g, &spec_lc);
    println!("cut without LC (l=0):  {}", p0.cut);
    println!(
        "cut with LC (l=15):    {} ({} LC ops)",
        p1.cut,
        p1.lc_sequence.len()
    );

    println!(
        "\nGraphviz of the LC-optimized partition:\n{}",
        dot::to_dot(&p1.transformed, Some(&p1.block_of))
    );

    let pipeline = Pipeline::new(FrameworkConfig::default());
    let compiled = pipeline.compile(&g)?;
    println!("{}", epgs::report::render(&compiled));
    Ok(())
}
