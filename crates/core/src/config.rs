//! Compiler configuration and its builder.

use epgs_hardware::{CompileObjective, HardwareModel};
use epgs_partition::{PartitionScheme, PartitionSpec};

use crate::stages::RecombineStrategy;

/// How many emitters the hardware offers the scheduler (paper §V.B.2 uses
/// `1.5 × Ne_min` and `2 × Ne_min`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EmitterBudget {
    /// A multiple of the target graph's minimal emitter count.
    Factor(f64),
    /// An absolute emitter count.
    Absolute(usize),
}

impl EmitterBudget {
    /// Resolves the budget against a minimal emitter count.
    pub fn resolve(self, ne_min: usize) -> usize {
        match self {
            EmitterBudget::Factor(f) => ((ne_min as f64 * f).ceil() as usize).max(1),
            EmitterBudget::Absolute(n) => n.max(1),
        }
    }
}

/// Complete configuration of the compilation framework.
///
/// Construct via [`FrameworkConfig::builder`] (or struct update off
/// [`FrameworkConfig::default`]):
///
/// ```
/// use epgs::{EmitterBudget, FrameworkConfig, RecombineStrategy};
///
/// let config = FrameworkConfig::builder()
///     .g_max(7)
///     .lc_budget(15)
///     .emitter_budget(EmitterBudget::Factor(1.5))
///     .flexible_slack(2)
///     .recombine(RecombineStrategy::all())
///     .build();
/// assert_eq!(config.partition.g_max, 7);
/// ```
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// Partitioning parameters (g_max, LC budget l, search effort).
    pub partition: PartitionSpec,
    /// Hardware timing/loss model used for scheduling and reported metrics.
    pub hardware: HardwareModel,
    /// What candidate circuits compete on — leaf-variant selection and
    /// recombination both minimize this. Objectives that name a
    /// [`HardwareModel`] score candidates under *that* platform;
    /// [`CompileObjective::Emitters`] (the default) scores under
    /// [`FrameworkConfig::hardware`] and reproduces the paper's
    /// lexicographic (#ee-CNOT, `T_loss`, duration) order exactly.
    pub objective: CompileObjective,
    /// Emitter budget Ne_limit.
    pub emitter_budget: EmitterBudget,
    /// Candidate emission orderings explored per subgraph.
    pub orderings_per_subgraph: usize,
    /// Flexible-resource slack: each subgraph is also compiled with
    /// `ne_min + 1 … ne_min + slack` emitters (paper §IV.B uses 2).
    pub flexible_slack: usize,
    /// Recombination strategies competing for the global circuit, tried in
    /// order (see [`RecombineStrategy`]).
    pub recombine: Vec<RecombineStrategy>,
    /// Seed for the randomized phases.
    pub seed: u64,
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
            recombine: RecombineStrategy::all(),
            seed: 0xec05,
        }
    }
}

impl FrameworkConfig {
    /// Starts a builder from the paper-default configuration.
    pub fn builder() -> FrameworkConfigBuilder {
        FrameworkConfigBuilder {
            config: FrameworkConfig::default(),
        }
    }

    /// Targets a platform end to end: sets [`FrameworkConfig::hardware`]
    /// *and* re-targets any hardware-carrying objective at the same
    /// preset, so scoring and reporting agree. The single owner of that
    /// consistency invariant — prefer it over assigning the two fields
    /// separately ([`FrameworkConfigBuilder::platform`] and the bench
    /// drivers all route through here).
    pub fn set_platform(&mut self, hardware: HardwareModel) {
        self.objective = std::mem::take(&mut self.objective).with_hardware(hardware.clone());
        self.hardware = hardware;
    }
}

/// Fluent builder for [`FrameworkConfig`]; every knob defaults to the
/// paper's setting.
#[derive(Debug, Clone)]
pub struct FrameworkConfigBuilder {
    config: FrameworkConfig,
}

impl FrameworkConfigBuilder {
    /// Maximum vertices per subgraph (paper default 7).
    pub fn g_max(mut self, g_max: usize) -> Self {
        self.config.partition.g_max = g_max;
        self
    }

    /// Local-complementation budget `l` (paper default 15; 0 disables LC).
    pub fn lc_budget(mut self, lc_budget: usize) -> Self {
        self.config.partition.lc_budget = lc_budget;
        self
    }

    /// Restart/iteration scale of the partition search.
    pub fn partition_effort(mut self, effort: usize) -> Self {
        self.config.partition.effort = effort;
        self
    }

    /// Partitioning engine: [`PartitionScheme::Flat`] reproduces the
    /// historical flat FM pipeline byte for byte;
    /// [`PartitionScheme::Multilevel`] (the default) coarsens large graphs
    /// before partitioning and is ~10–50× faster above ~50 vertices.
    pub fn partition_scheme(mut self, scheme: PartitionScheme) -> Self {
        self.config.partition.scheme = scheme;
        self
    }

    /// Replaces the whole partition spec at once.
    pub fn partition(mut self, spec: PartitionSpec) -> Self {
        self.config.partition = spec;
        self
    }

    /// Hardware timing/loss model.
    pub fn hardware(mut self, hardware: HardwareModel) -> Self {
        self.config.hardware = hardware;
        self
    }

    /// Compilation objective (see [`FrameworkConfig::objective`]).
    pub fn objective(mut self, objective: CompileObjective) -> Self {
        self.config.objective = objective;
        self
    }

    /// Targets a platform end to end: sets [`FrameworkConfig::hardware`]
    /// *and* re-targets any hardware-carrying objective at the same
    /// preset, so scoring and reporting agree.
    ///
    /// ```
    /// use epgs::{CompileObjective, FrameworkConfig};
    /// use epgs_hardware::HardwareModel;
    ///
    /// let config = FrameworkConfig::builder()
    ///     .objective(CompileObjective::Duration(HardwareModel::quantum_dot()))
    ///     .platform(HardwareModel::rydberg())
    ///     .build();
    /// assert_eq!(config.hardware.name, "Rydberg superatom");
    /// assert_eq!(config.objective.hardware().unwrap().name, "Rydberg superatom");
    /// ```
    pub fn platform(mut self, hardware: HardwareModel) -> Self {
        self.config.set_platform(hardware);
        self
    }

    /// Emitter budget `Ne_limit` (factor of `Ne_min` or absolute).
    pub fn emitter_budget(mut self, budget: EmitterBudget) -> Self {
        self.config.emitter_budget = budget;
        self
    }

    /// Candidate emission orderings explored per subgraph.
    pub fn orderings_per_subgraph(mut self, n: usize) -> Self {
        self.config.orderings_per_subgraph = n;
        self
    }

    /// Flexible-resource slack (paper §IV.B uses 2).
    pub fn flexible_slack(mut self, slack: usize) -> Self {
        self.config.flexible_slack = slack;
        self
    }

    /// Recombination strategies, tried in the given order.
    pub fn recombine(mut self, strategies: Vec<RecombineStrategy>) -> Self {
        self.config.recombine = strategies;
        self
    }

    /// Seed for the randomized phases.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> FrameworkConfig {
        self.config
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
        assert_eq!(EmitterBudget::Absolute(5).resolve(100), 5);
        assert_eq!(EmitterBudget::Absolute(0).resolve(3), 1, "clamped to 1");
        assert_eq!(EmitterBudget::Factor(0.1).resolve(2), 1);
    }

    #[test]
    fn default_matches_paper() {
        let c = FrameworkConfig::default();
        assert_eq!(c.partition.g_max, 7);
        assert_eq!(c.partition.lc_budget, 15);
        assert_eq!(c.flexible_slack, 2);
        assert_eq!(c.recombine, RecombineStrategy::all());
        assert_eq!(c.objective, CompileObjective::Emitters);
    }

    #[test]
    fn builder_defaults_equal_default_config() {
        let built = FrameworkConfig::builder().build();
        let default = FrameworkConfig::default();
        assert_eq!(built.partition, default.partition);
        assert_eq!(built.emitter_budget, default.emitter_budget);
        assert_eq!(built.orderings_per_subgraph, default.orderings_per_subgraph);
        assert_eq!(built.flexible_slack, default.flexible_slack);
        assert_eq!(built.recombine, default.recombine);
        assert_eq!(built.seed, default.seed);
    }

    #[test]
    fn builder_sets_every_knob() {
        let c = FrameworkConfig::builder()
            .g_max(4)
            .lc_budget(2)
            .partition_effort(9)
            .partition_scheme(PartitionScheme::Flat)
            .emitter_budget(EmitterBudget::Absolute(3))
            .orderings_per_subgraph(5)
            .flexible_slack(0)
            .recombine(vec![RecombineStrategy::DirectSolve])
            .objective(CompileObjective::Duration(HardwareModel::rydberg()))
            .seed(99)
            .build();
        assert_eq!(
            c.objective,
            CompileObjective::Duration(HardwareModel::rydberg())
        );
        assert_eq!(c.partition.g_max, 4);
        assert_eq!(c.partition.lc_budget, 2);
        assert_eq!(c.partition.effort, 9);
        assert_eq!(c.partition.scheme, PartitionScheme::Flat);
        assert_eq!(c.emitter_budget, EmitterBudget::Absolute(3));
        assert_eq!(c.orderings_per_subgraph, 5);
        assert_eq!(c.flexible_slack, 0);
        assert_eq!(c.recombine, vec![RecombineStrategy::DirectSolve]);
        assert_eq!(c.seed, 99);
    }
}
