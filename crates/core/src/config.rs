//! Compiler configuration.

use epgs_hardware::{CompileObjective, HardwareModel};
use epgs_partition::PartitionSpec;

/// How many emitters the hardware offers the scheduler (paper §V.B.2 uses
/// `1.5 × Ne_min` and `2 × Ne_min`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EmitterBudget {
    /// A multiple of the target graph's minimal emitter count.
    Factor(f64),
}

impl EmitterBudget {
    /// Resolves the budget against a minimal emitter count.
    pub fn resolve(self, ne_min: usize) -> usize {
        let EmitterBudget::Factor(f) = self;
        ((ne_min as f64 * f).ceil() as usize).max(1)
    }
}

/// Complete configuration of the compilation framework.
///
/// Construct by struct update off [`FrameworkConfig::default`], the
/// paper's setting:
///
/// ```
/// use epgs::{EmitterBudget, FrameworkConfig};
/// use epgs_partition::PartitionSpec;
///
/// let config = FrameworkConfig {
///     partition: PartitionSpec { g_max: 7, lc_budget: 15, ..Default::default() },
///     emitter_budget: EmitterBudget::Factor(1.5),
///     flexible_slack: 2,
///     ..Default::default()
/// };
/// assert_eq!(config.partition.g_max, 7);
/// ```
///
/// Targeting another platform is assigning its preset; the objective
/// scores candidates under it:
///
/// ```
/// use epgs::{CompileObjective, FrameworkConfig};
/// use epgs_hardware::HardwareModel;
///
/// let config = FrameworkConfig {
///     hardware: HardwareModel::rydberg(),
///     objective: CompileObjective::Duration,
///     ..Default::default()
/// };
/// assert_eq!(config.hardware.name, "Rydberg superatom");
/// ```
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// Partitioning parameters (g_max, LC budget l, search effort).
    pub partition: PartitionSpec,
    /// Hardware timing/loss model used for scheduling and reported metrics.
    pub hardware: HardwareModel,
    /// What candidate circuits compete on — leaf-variant selection and
    /// recombination both minimize this, with figures measured under
    /// [`FrameworkConfig::hardware`]. [`CompileObjective::Emitters`] (the
    /// default) reproduces the paper's lexicographic (#ee-CNOT, `T_loss`,
    /// duration) order exactly.
    pub objective: CompileObjective,
    /// Emitter budget Ne_limit.
    pub emitter_budget: EmitterBudget,
    /// Candidate emission orderings explored per subgraph.
    pub orderings_per_subgraph: usize,
    /// Flexible-resource slack: each subgraph is also compiled with
    /// `ne_min + 1 … ne_min + slack` emitters (paper §IV.B uses 2).
    pub flexible_slack: usize,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            partition: PartitionSpec::default(),
            hardware: HardwareModel::quantum_dot(),
            objective: CompileObjective::Emitters,
            emitter_budget: EmitterBudget::Factor(1.5),
            orderings_per_subgraph: 8,
            flexible_slack: 2,
        }
    }
}

/// The small configuration the crate's unit tests compile under: quick to
/// run, yet large enough that targets split into several blocks.
#[cfg(test)]
pub(crate) fn quick_config() -> FrameworkConfig {
    FrameworkConfig {
        partition: PartitionSpec {
            g_max: 5,
            lc_budget: 3,
            effort: 4,
            ..Default::default()
        },
        orderings_per_subgraph: 4,
        flexible_slack: 1,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_resolution() {
        assert_eq!(EmitterBudget::Factor(1.5).resolve(4), 6);
        assert_eq!(EmitterBudget::Factor(2.0).resolve(3), 6);
        assert_eq!(EmitterBudget::Factor(1.5).resolve(1), 2);
        assert_eq!(EmitterBudget::Factor(0.1).resolve(2), 1);
    }

    #[test]
    fn default_matches_paper() {
        let c = FrameworkConfig::default();
        assert_eq!(c.partition.g_max, 7);
        assert_eq!(c.partition.lc_budget, 15);
        assert_eq!(c.flexible_slack, 2);
        assert_eq!(c.objective, CompileObjective::Emitters);
    }
}
