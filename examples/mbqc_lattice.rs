//! MBQC lattice workload with an emitter-usage plot (paper Fig. 5).
//!
//! Compiles a 2D lattice cluster state — the measurement-based quantum
//! computing resource — under two emitter budgets (1.5× and 2× Ne_min) and
//! renders the emitter-usage-over-time curve of the compiled circuit as
//! ASCII art, visualizing the utilization the Tetris scheduler achieves.
//!
//! Run with: `cargo run --release --example mbqc_lattice`

use epgs::{FrameworkConfig, Pipeline};
use epgs_circuit::usage_curve;
use epgs_graph::generators;
use epgs_hardware::HardwareModel;

fn plot_usage(times: &[f64], counts: &[usize], duration: f64) {
    let max = counts.iter().copied().max().unwrap_or(0);
    for level in (1..=max).rev() {
        let mut line = String::new();
        for col in 0..60 {
            let t = duration * col as f64 / 60.0;
            let k = times.iter().rposition(|&bp| bp <= t).unwrap_or(0);
            let v = counts.get(k).copied().unwrap_or(0);
            line.push(if v >= level { '█' } else { ' ' });
        }
        println!("{level:>2} |{line}");
    }
    println!("   +{}", "-".repeat(60));
    println!("    0{:>58.1}τ", duration);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hw = HardwareModel::quantum_dot();
    let g = generators::lattice(4, 5);
    let pipeline = Pipeline::new(FrameworkConfig::default());

    // Budget sweep through the staged pipeline: the 4x5 lattice is
    // partitioned and leaf-compiled once; each budget point only re-runs
    // schedule → recombine → verify.
    let planned = pipeline.partition(&g).plan_leaves()?;
    let ne_min = planned.ne_min();
    println!("4x5 lattice, Ne_min = {ne_min}\n");

    for factor in [1.5f64, 2.0] {
        let budget = ((ne_min as f64 * factor).ceil() as usize).max(1);
        let compiled = planned.schedule(budget).recombine()?.verify()?;
        println!(
            "Ne_limit = {budget} ({factor}x): duration {:.2} τ, {} ee-CNOTs, T_loss {:.2} τ",
            compiled.metrics.duration, compiled.metrics.ee_two_qubit_count, compiled.metrics.t_loss
        );
        let (times, counts) = usage_curve(&hw, &compiled.circuit);
        plot_usage(&times, &counts, compiled.metrics.duration);
        println!();
    }
    Ok(())
}
