//! # epgs — a scalable compilation framework for emitter-photonic graph states
//!
//! Rust reproduction of the scalable and robust compilation framework for
//! emitter-photonic graph states of Ren, Huang, Liang and Barbalace (DAC
//! 2025). Given a target graph state, the framework produces a verified
//! generation circuit for the deterministic (emitter-based) scheme.
//!
//! # The staged pipeline
//!
//! Compilation is an explicit five-stage pipeline (paper Fig. 6), one typed
//! artifact per stage:
//!
//! | Stage | Call | Artifact | Paper |
//! |-------|------|----------|-------|
//! | 1. Partition | [`Pipeline::partition`] | [`Partitioned`] | §IV.A |
//! | 2. Leaf compile | [`Partitioned::plan_leaves`] | [`Planned`] | §IV.B |
//! | 3. Schedule | [`Planned::schedule`] | [`Scheduled`] | §IV.C |
//! | 4. Recombine | [`Scheduled::recombine`] | [`Recombined`] | §IV.D |
//! | 5. Verify | [`Recombined::verify`] | [`Compiled`] | §IV.E |
//!
//! Stage methods take `&self` and artifacts share heavy state behind `Arc`,
//! so one expensive prefix fans out into many cheap suffixes. The paper's
//! §V.B.2 emitter-budget sweeps are the motivating case: hold one
//! [`Planned`] and call [`Planned::schedule`] per budget — partitioning and
//! every leaf solve run exactly once. Leaf compilation runs in parallel
//! across blocks.
//!
//! ```
//! use epgs::{FrameworkConfig, PartitionSpec, Pipeline};
//! use epgs_graph::generators;
//!
//! # fn main() -> Result<(), epgs::FrameworkError> {
//! let pipeline = Pipeline::new(FrameworkConfig {
//!     partition: PartitionSpec { g_max: 5, lc_budget: 4, ..Default::default() },
//!     ..Default::default()
//! });
//! let planned = pipeline.partition(&generators::lattice(3, 3)).plan_leaves()?;
//! // Sweep Ne_limit without re-partitioning or re-solving leaves:
//! for budget in [2, 3] {
//!     let compiled = planned.schedule(budget).recombine()?.verify()?;
//!     assert_eq!(compiled.ne_limit, budget);
//!     assert_eq!(compiled.circuit.emission_count(), 9);
//! }
//! assert_eq!(pipeline.counters().plan, 1, "leaves compiled once");
//! # Ok(())
//! # }
//! ```
//!
//! # One-shot compiles
//!
//! [`Pipeline::compile`] runs all five stages at the configured emitter
//! budget ([`FrameworkConfig::emitter_budget`]) — the common
//! single-compile case:
//!
//! ```
//! use epgs::{FrameworkConfig, Pipeline};
//! use epgs_graph::generators;
//!
//! # fn main() -> Result<(), epgs::FrameworkError> {
//! // Compile a 3×3 MBQC lattice graph state.
//! let pipeline = Pipeline::new(FrameworkConfig::default());
//! let compiled = pipeline.compile(&generators::lattice(3, 3))?;
//! println!("{}", epgs::report::render(&compiled));
//! assert_eq!(compiled.circuit.emission_count(), 9);
//! # Ok(())
//! # }
//! ```
//!
//! Recombination is pluggable: [`Scheduled::recombine`] runs every
//! [`RecombineStrategy`] (scheduled interleave, block-sequential, direct
//! solve) in competition, and [`Scheduled::recombine_with`] runs a chosen
//! subset.
//!
//! # The objective layer
//!
//! What candidates compete *on* is configurable:
//! [`FrameworkConfig::objective`] holds a [`CompileObjective`] consumed by
//! leaf-circuit selection and recombination scoring alike. The default,
//! [`CompileObjective::Emitters`], is the paper's lexicographic
//! (#ee-CNOT, `T_loss`, duration) order; [`CompileObjective::Duration`]
//! puts duration first. Both measure candidates under
//! [`FrameworkConfig::hardware`], so the same graph can compile to
//! different strategies on different platforms:
//!
//! ```
//! use epgs::{CompileObjective, FrameworkConfig, Pipeline};
//! use epgs_graph::generators;
//! use epgs_hardware::HardwareModel;
//!
//! # fn main() -> Result<(), epgs::FrameworkError> {
//! let config = FrameworkConfig {
//!     hardware: HardwareModel::rydberg(),
//!     objective: CompileObjective::Duration,
//!     ..Default::default()
//! };
//! let pipeline = Pipeline::new(config);
//! let compiled = pipeline.compile(&generators::lattice(3, 3))?;
//! assert_eq!(compiled.objective.kind_name(), "duration");
//! assert!(compiled.loss_report().mean_photon_loss < 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! # The batch engine
//!
//! [`BatchCompiler`] (module [`batch`]) scales the pipeline from one target
//! to a corpus: instances compile in parallel, and a content-addressed
//! [`ArtifactCache`] — keyed by the label-invariant canonical graph hash
//! plus a configuration fingerprint — serves repeated content its
//! already-verified result without running any pipeline stage:
//!
//! ```
//! use epgs::{BatchCompiler, BatchInstance, FrameworkConfig, PartitionSpec};
//! use epgs_graph::generators;
//!
//! let batch = BatchCompiler::new(FrameworkConfig {
//!     partition: PartitionSpec { g_max: 4, ..Default::default() },
//!     ..Default::default()
//! });
//! let jobs = vec![
//!     BatchInstance::new("ring-8", "cycle", generators::cycle(8)),
//!     BatchInstance::new("ring-8-dup", "cycle", generators::cycle(8)),
//! ];
//! let report = batch.run(&jobs);
//! assert_eq!((report.succeeded, report.cache_hits), (2, 1));
//! ```

pub mod artifact;
pub mod batch;
pub mod config;
pub mod error;
pub mod faults;
pub mod report;
pub mod schedule;
pub mod stages;
pub mod store;
pub mod subgraph;

pub use artifact::ArtifactError;
pub use batch::{
    config_fingerprint, ArtifactCache, BatchCompiler, BatchInstance, BatchReport, CacheKey,
    CacheOutcome, CacheStats, FamilySummary, InstanceMetrics, InstanceReport,
};
pub use config::{EmitterBudget, FrameworkConfig};
pub use epgs_hardware::{CompileObjective, ObjectiveFigures, ObjectiveScore};
pub use epgs_partition::{MultilevelOptions, PartitionScheme, PartitionSpec};
pub use error::FrameworkError;
pub use faults::{
    lock_recover, panic_message, FaultKind, FaultPlan, FaultRule, PlanError, PlanErrorKind,
    RequestCtx, Trigger,
};
pub use schedule::{schedule, Placement, Schedule, StepFn};
pub use stages::{
    Compiled, Partitioned, Pipeline, Planned, RecombineStrategy, Recombined, Scheduled, StageCounts,
};
pub use store::{ArtifactStore, RecoveryReport, StoreStats};
pub use subgraph::{compile_subgraph, SubgraphPlan};
