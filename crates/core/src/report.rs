//! Human-readable compilation reports.

use crate::stages::Compiled;

/// Renders a one-target report: partition, schedule, and circuit metrics.
///
/// # Examples
///
/// ```
/// use epgs::{report, FrameworkConfig, Pipeline};
/// use epgs_graph::generators;
///
/// # fn main() -> Result<(), epgs::FrameworkError> {
/// let compiled = Pipeline::new(FrameworkConfig::default()).compile(&generators::path(4))?;
/// let text = report::render(&compiled);
/// assert!(text.contains("ee-CNOTs"));
/// # Ok(())
/// # }
/// ```
pub fn render(c: &Compiled) -> String {
    let mut out = String::new();
    out.push_str("=== epgs compilation report ===\n");
    out.push_str(&format!(
        "photons: {}   Ne_min: {}   Ne_limit: {}\n",
        c.circuit.num_photons(),
        c.ne_min,
        c.ne_limit
    ));
    out.push_str(&format!(
        "partition: {} blocks, cut {} edges, {} LC ops\n",
        c.plans.len(),
        c.partition.cut,
        c.partition.lc_sequence.len()
    ));
    for (i, plan) in c.plans.iter().enumerate() {
        out.push_str(&format!(
            "  block {i}: {} photons, {} emitters, {} ee-CNOTs, {:.2} τ\n",
            plan.photon_count(),
            plan.solved.emitters,
            plan.ee_cnots,
            plan.duration
        ));
    }
    out.push_str(&format!(
        "schedule: makespan estimate {:.2} τ under {} emitters\n",
        c.schedule.makespan, c.schedule.ne_limit
    ));
    out.push_str(&format!(
        "recombination: {:?} won under the {} objective\n",
        c.strategy,
        c.objective.kind_name()
    ));
    out.push_str(&format!(
        "final circuit: {} ee-CNOTs, {:.2} τ duration, T_loss {:.2} τ, \
         {} measurements, {} single-qubit gates\n",
        c.metrics.ee_two_qubit_count,
        c.metrics.duration,
        c.metrics.t_loss,
        c.metrics.measurements,
        c.metrics.single_qubit_gates
    ));
    out.push_str(&format!(
        "photon loss: mean {:.4}, any-photon {:.4}\n",
        c.metrics.loss.mean_photon_loss, c.metrics.loss.any_photon_loss
    ));
    out
}

#[cfg(test)]
mod tests {
    use crate::config::FrameworkConfig;
    use crate::stages::Pipeline;
    use epgs_graph::generators;

    #[test]
    fn report_contains_key_lines() {
        let c = Pipeline::new(FrameworkConfig::default())
            .compile(&generators::lattice(2, 3))
            .unwrap();
        let text = super::render(&c);
        assert!(text.contains("partition:"));
        assert!(text.contains("schedule:"));
        assert!(text.contains("recombination:"));
        assert!(text.contains("final circuit:"));
        assert!(text.contains("photon loss:"));
    }
}
